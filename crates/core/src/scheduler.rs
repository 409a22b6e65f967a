//! FIFO scheduling of shared hardware accelerators (paper Section 4).
//!
//! "It is also very common that multiple instances of a user application
//! may compete for the same hardware acceleration units. For efficient
//! sharing of hardware resources, BlueDBM runs a scheduler that assigns
//! available hardware-acceleration units to competing user-applications.
//! In our implementation, a simple FIFO-based policy is used."
//!
//! [`AccelSched`] is that scheduler as a simulated component: one per
//! node, built by [`crate::cluster::Cluster`], arbitrating
//! `config.accel.units` identical units among in-flight jobs *inside* the
//! running DES. Jobs arrive as [`SchedSubmit`] messages (the node agent
//! submits one for every read consumed with
//! [`crate::node::Consume::Accel`] — the multi-tenant KV engine's data
//! path); a free unit is granted immediately, otherwise the job parks in
//! a FIFO queue and is granted when a running job releases its unit. The
//! requester learns of completion via [`SchedDone`]. Queue-wait
//! statistics accumulate in [`SchedStats`], surfaced per node through
//! [`crate::cluster::Cluster::sched_stats`].
//!
//! FIFO on a finite unit pool is starvation-free by construction: every
//! parked job is granted after at most `queue-position` predecessor
//! completions, whatever mix of tenants is saturating the units — the
//! unit tests pin that down.

use std::collections::VecDeque;

use bluedbm_sim::engine::{Component, ComponentId, Ctx};
use bluedbm_sim::time::SimTime;
use bluedbm_sim::{MetricsNode, TraceCat};

use crate::msg::Msg;

/// Ask a node's [`AccelSched`] for one accelerator unit for `duration`.
#[derive(Clone, Copy, Debug)]
pub struct SchedSubmit {
    /// Requester-chosen job id, echoed in [`SchedDone`].
    pub job: u64,
    /// Component notified when the job finishes.
    pub reply_to: ComponentId,
    /// Accelerator busy time the job needs once granted.
    pub duration: SimTime,
}

/// Scheduler-internal self-send: a running job's unit becomes free.
#[derive(Clone, Copy, Debug)]
pub struct SchedFree {
    pub(crate) job: u64,
    pub(crate) reply_to: ComponentId,
}

/// A job finished on its accelerator unit (scheduler → requester).
#[derive(Clone, Copy, Debug)]
pub struct SchedDone {
    /// Echo of the [`SchedSubmit`] job id.
    pub job: u64,
}

/// Cumulative per-node scheduler statistics. Additive counters plus
/// queue-wait aggregates; `PartialEq` so test suites can compare nodes
/// field for field. (Under same-instant cross-tenant contention the
/// *individual* waits are arbitration-dependent — the cross-engine
/// conformance suite compares only the counters.)
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Jobs submitted.
    pub submitted: u64,
    /// Jobs granted a unit so far.
    pub granted: u64,
    /// Jobs completed.
    pub completed: u64,
    /// Jobs that found every unit busy and had to park.
    pub parked: u64,
    /// Deepest the parked queue ever got.
    pub peak_parked: u64,
    /// Sum of queue waits (submit → grant) over granted jobs.
    pub total_wait: SimTime,
    /// Largest single queue wait.
    pub max_wait: SimTime,
}

impl SchedStats {
    /// Mean queue wait across granted jobs ([`SimTime::ZERO`] before any
    /// grant).
    pub fn mean_wait(&self) -> SimTime {
        if self.granted == 0 {
            SimTime::ZERO
        } else {
            self.total_wait / self.granted
        }
    }

    /// Write every counter into a metrics `node` (see
    /// [`bluedbm_sim::MetricsRegistry`]).
    pub fn fill_metrics(&self, node: &mut MetricsNode) {
        node.set("submitted", self.submitted);
        node.set("granted", self.granted);
        node.set("completed", self.completed);
        node.set("parked", self.parked);
        node.set("peak_parked", self.peak_parked);
        node.set("total_wait_ps", self.total_wait.as_ps());
        node.set("max_wait_ps", self.max_wait.as_ps());
        node.set("mean_wait_ps", self.mean_wait().as_ps());
    }
}

/// A job waiting for a free unit.
#[derive(Clone, Copy, Debug)]
struct ParkedJob {
    job: u64,
    reply_to: ComponentId,
    duration: SimTime,
    since: SimTime,
}

/// The per-node accelerator scheduler component (see the module docs).
pub struct AccelSched {
    units: usize,
    busy: usize,
    node: u32,
    parked: VecDeque<ParkedJob>,
    stats: SchedStats,
}

impl AccelSched {
    /// A scheduler over `units` identical accelerator units.
    ///
    /// # Panics
    ///
    /// Panics if `units == 0`.
    pub fn new(units: usize) -> Self {
        assert!(units > 0, "a node needs at least one accelerator unit");
        AccelSched {
            units,
            busy: 0,
            node: 0,
            parked: VecDeque::new(),
            stats: SchedStats::default(),
        }
    }

    /// Tag this scheduler with its owning node index — the `track` of
    /// every [`TraceCat::Accel`] record it emits.
    pub fn with_node(mut self, node: u32) -> Self {
        self.node = node;
        self
    }

    /// Units this scheduler arbitrates.
    pub fn units(&self) -> usize {
        self.units
    }

    /// Units currently granted to running jobs.
    pub fn busy_units(&self) -> usize {
        self.busy
    }

    /// Jobs currently parked waiting for a unit.
    pub fn parked_jobs(&self) -> usize {
        self.parked.len()
    }

    /// Statistics gathered so far.
    pub fn stats(&self) -> &SchedStats {
        &self.stats
    }

    fn grant(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        job: u64,
        reply_to: ComponentId,
        duration: SimTime,
        waited: SimTime,
    ) {
        self.busy += 1;
        self.stats.granted += 1;
        self.stats.total_wait += waited;
        self.stats.max_wait = self.stats.max_wait.max(waited);
        ctx.trace()
            .instant(TraceCat::Accel, "grant", self.node, job, waited.as_ps());
        ctx.send_self(duration, SchedFree { job, reply_to });
    }
}

impl Component<Msg> for AccelSched {
    fn handle(&mut self, ctx: &mut Ctx<'_, Msg>, msg: Msg) {
        match msg {
            Msg::SchedSubmit(s) => {
                self.stats.submitted += 1;
                if self.busy < self.units {
                    self.grant(ctx, s.job, s.reply_to, s.duration, SimTime::ZERO);
                } else {
                    self.stats.parked += 1;
                    ctx.trace()
                        .instant(TraceCat::Accel, "park", self.node, s.job, 0);
                    self.parked.push_back(ParkedJob {
                        job: s.job,
                        reply_to: s.reply_to,
                        duration: s.duration,
                        since: ctx.now(),
                    });
                    self.stats.peak_parked =
                        self.stats.peak_parked.max(self.parked.len() as u64);
                }
            }
            Msg::SchedFree(f) => {
                self.busy -= 1;
                self.stats.completed += 1;
                ctx.trace()
                    .instant(TraceCat::Accel, "done", self.node, f.job, 0);
                ctx.send(f.reply_to, SimTime::ZERO, SchedDone { job: f.job });
                if let Some(next) = self.parked.pop_front() {
                    let waited = ctx.now() - next.since;
                    self.grant(ctx, next.job, next.reply_to, next.duration, waited);
                }
            }
            other => panic!("accelerator scheduler got an unexpected message: {other:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bluedbm_sim::engine::Simulator;

    /// Probe requester: records the order and times jobs complete.
    struct Probe {
        done: Vec<(u64, SimTime)>,
    }

    impl Component<Msg> for Probe {
        fn handle(&mut self, ctx: &mut Ctx<'_, Msg>, msg: Msg) {
            match msg {
                Msg::SchedDone(d) => self.done.push((d.job, ctx.now())),
                other => panic!("probe got {other:?}"),
            }
        }
    }

    fn world(units: usize) -> (Simulator<Msg>, ComponentId, ComponentId) {
        let mut sim = Simulator::new();
        let sched = sim.add_component(AccelSched::new(units));
        let probe = sim.add_component(Probe { done: Vec::new() });
        (sim, sched, probe)
    }

    fn submit(sim: &mut Simulator<Msg>, sched: ComponentId, probe: ComponentId, job: u64, at: SimTime, duration: SimTime) {
        sim.schedule(at, sched, Msg::SchedSubmit(SchedSubmit { job, reply_to: probe, duration }));
    }

    #[test]
    fn component_grants_in_fifo_order_on_one_unit() {
        let (mut sim, sched, probe) = world(1);
        for job in 0..6u64 {
            submit(&mut sim, sched, probe, job, SimTime::ZERO, SimTime::us(10));
        }
        sim.run();
        let done = &sim.component::<Probe>(probe).unwrap().done;
        // Strict FIFO: job k completes at (k+1)*10us, in submission order.
        let expect: Vec<(u64, SimTime)> =
            (0..6).map(|k| (k, SimTime::us(10 * (k + 1)))).collect();
        assert_eq!(*done, expect);
        let s = sim.component::<AccelSched>(sched).unwrap();
        assert_eq!(s.stats().submitted, 6);
        assert_eq!(s.stats().completed, 6);
        assert_eq!(s.stats().parked, 5, "all but the first waited");
        assert_eq!(s.stats().peak_parked, 5);
        assert_eq!(s.busy_units(), 0);
        assert_eq!(s.parked_jobs(), 0);
    }

    #[test]
    fn queue_wait_accounting_under_unit_exhaustion() {
        let (mut sim, sched, probe) = world(2);
        // Four same-instant 10us jobs on two units: two run at 0, two
        // wait 10us.
        for job in 0..4u64 {
            submit(&mut sim, sched, probe, job, SimTime::ZERO, SimTime::us(10));
        }
        sim.run();
        let s = sim.component::<AccelSched>(sched).unwrap().stats();
        assert_eq!(s.granted, 4);
        assert_eq!(s.parked, 2);
        assert_eq!(s.total_wait, SimTime::us(20));
        assert_eq!(s.mean_wait(), SimTime::us(5));
        assert_eq!(s.max_wait, SimTime::us(10));
    }

    #[test]
    fn fifo_order_preserved() {
        let (mut sim, sched, probe) = world(1);
        for job in 0..5u64 {
            submit(&mut sim, sched, probe, job, SimTime::ZERO, SimTime::us(10));
        }
        sim.run();
        let s = sim.component::<AccelSched>(sched).unwrap().stats();
        assert_eq!(s.mean_wait(), SimTime::us(20)); // (0+10+20+30+40) / 5
    }

    #[test]
    fn multiple_units_run_concurrently() {
        let (mut sim, sched, probe) = world(4);
        for job in 0..4u64 {
            submit(&mut sim, sched, probe, job, SimTime::ZERO, SimTime::us(10));
        }
        sim.run();
        let done = &sim.component::<Probe>(probe).unwrap().done;
        assert!(done.iter().all(|&(_, at)| at == SimTime::us(10)));
        let s = sim.component::<AccelSched>(sched).unwrap().stats();
        assert_eq!(s.parked, 0);
        assert_eq!(s.total_wait, SimTime::ZERO);
        assert_eq!(s.max_wait, SimTime::ZERO);
    }

    #[test]
    fn later_submissions_start_no_earlier() {
        let (mut sim, sched, probe) = world(2);
        submit(&mut sim, sched, probe, 0, SimTime::ZERO, SimTime::us(100));
        submit(&mut sim, sched, probe, 1, SimTime::ZERO, SimTime::us(100));
        // Both units are busy until 100us: the job waits 70us for one.
        submit(&mut sim, sched, probe, 2, SimTime::us(30), SimTime::us(10));
        sim.run();
        let done = &sim.component::<Probe>(probe).unwrap().done;
        assert!(done.contains(&(2, SimTime::us(110))), "{done:?}");
        let s = sim.component::<AccelSched>(sched).unwrap().stats();
        assert_eq!(s.parked, 1);
        assert_eq!(s.max_wait, SimTime::us(70));
        assert_eq!(s.total_wait, SimTime::us(70));
    }

    #[test]
    fn mixed_durations_finish_at_fifo_times() {
        // Each job in submission order takes whichever unit frees first.
        let durations = [7u64, 3, 12, 5, 9, 1, 4];
        let (mut sim, sched, probe) = world(2);
        for (job, &d) in durations.iter().enumerate() {
            submit(&mut sim, sched, probe, job as u64, SimTime::ZERO, SimTime::us(d));
        }
        sim.run();
        let mut done = sim.component::<Probe>(probe).unwrap().done.clone();
        done.sort_by_key(|&(j, _)| j);
        let expect: Vec<(u64, SimTime)> = [7u64, 3, 15, 12, 21, 16, 20]
            .iter()
            .enumerate()
            .map(|(j, &f)| (j as u64, SimTime::us(f)))
            .collect();
        assert_eq!(done, expect);
    }

    #[test]
    fn starvation_freedom_when_tenants_saturate_one_unit() {
        // Two "tenants" alternately flood one unit; every job of both
        // must complete, and FIFO means completion order == submission
        // order regardless of which tenant a job belongs to.
        let (mut sim, sched, probe) = world(1);
        let mut order = Vec::new();
        for round in 0..10u64 {
            for tenant in 0..2u64 {
                let job = (tenant << 32) | round;
                submit(&mut sim, sched, probe, job, SimTime::ZERO, SimTime::us(3));
                order.push(job);
            }
        }
        sim.run();
        let done: Vec<u64> = sim
            .component::<Probe>(probe)
            .unwrap()
            .done
            .iter()
            .map(|&(j, _)| j)
            .collect();
        assert_eq!(done, order, "no tenant's job overtook an earlier one");
        let s = sim.component::<AccelSched>(sched).unwrap().stats();
        assert_eq!(s.completed, 20);
        // Later arrivals wait longer; the last job waited 19 * 3us.
        assert_eq!(s.max_wait, SimTime::us(57));
    }

    #[test]
    fn staggered_arrivals_use_free_units_without_waiting() {
        let (mut sim, sched, probe) = world(2);
        submit(&mut sim, sched, probe, 0, SimTime::ZERO, SimTime::us(30));
        // Arrives while job 0 runs, but the second unit is free.
        submit(&mut sim, sched, probe, 1, SimTime::us(5), SimTime::us(4));
        sim.run();
        let done = &sim.component::<Probe>(probe).unwrap().done;
        assert_eq!(*done, vec![(1, SimTime::us(9)), (0, SimTime::us(30))]);
        let s = sim.component::<AccelSched>(sched).unwrap().stats();
        assert_eq!(s.parked, 0);
        assert_eq!(s.total_wait, SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "at least one accelerator unit")]
    fn zero_units_rejected() {
        let _ = AccelSched::new(0);
    }
}
