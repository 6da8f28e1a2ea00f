//! The serve layer, measured in the traced run: a `cnc serve` daemon on
//! the workload's image and kernel, an open-loop flood at the nominal rate
//! between two `stats` replies, then the ladder of offered rates.

use crate::daemon::Daemon;
use crate::flood::run_phase;
use crate::report::{json_number, percentile, Outcome};
use crate::workloads::Ctx;

/// Offered rate (queries/s) at which serve latency is reported: below the
/// daemon's capacity on either graph on a 2-core host.
pub const NOMINAL_QPS: f64 = 1000.0;
/// Seconds offered at the nominal rate (3000 samples, 30 beyond the p99).
const NOMINAL_S: f64 = 3.0;
/// The coarse ladder of offered rates; after its first missed rung the
/// search continues from the last rung that held in steps of
/// [`FINE_STEP`] up to the missed one.
const COARSE_QPS: [f64; 8] = [400.0, 600.0, 900.0, 1350.0, 2000.0, 3000.0, 4500.0, 6750.0];
const FINE_STEP: f64 = 1.08;
/// Seconds offered at each ladder rung.
const RUNG_S: f64 = 0.5;
/// Latency limit (ms) on the p99 of a ladder rung. Far above the daemon's
/// own latency: scheduling stalls of 5-15 ms are frequent on a shared
/// 2-vCPU host even when idle, so the tail alone cannot tell overload from
/// the host; the growing-backlog test does that.
const LIMIT_MS: f64 = 100.0;

/// Start a daemon on the workload's image and algorithm; its first answer
/// is a checked operation.
fn start(ctx: &Ctx, out: &mut Outcome) -> Result<Daemon, String> {
    let s = Daemon::start(
        &ctx.args.cnc,
        &ctx.input.prep,
        ctx.args.workload.algo(),
        ctx.probe(),
    )?;
    out.tally(1, u64::from(!s.answer_ok));
    out.metric("serve.setup_s", s.setup_s, "s");
    Ok(s.daemon)
}

/// Measure the serve layer and report its metrics. Returns the mean batch
/// size of the nominal flood (the size `count_batch` is replayed at).
pub fn measure(ctx: &Ctx, out: &mut Outcome) -> Result<f64, String> {
    let a = ctx.args;
    let daemon = start(ctx, out)?;
    let before = daemon.stats()?;
    let nominal = run_phase(
        &daemon.addr,
        &ctx.queries,
        0,
        NOMINAL_QPS,
        NOMINAL_S,
        a.threads,
        a.flip,
    )?;
    nominal.tally_into(out);
    let after = daemon.stats()?;
    let max_qps = ladder(ctx, &daemon, out)?;
    daemon.stop()?;
    let delta = |key: &str| json_number(&after, key) - json_number(&before, key);
    let batch_mean = delta("serve.requests") / delta("serve.batches").max(1.0);
    out.metric("serve.p50_ms", nominal.p(50.0), "ms");
    out.metric("serve.p99_ms", nominal.p(99.0), "ms");
    out.metric("serve.max_qps", max_qps, "1/s");
    out.metric("serve.batch_size_mean", batch_mean, "count");
    out.metric(
        "serve.coalesced_share",
        delta("serve.coalesced") / delta("serve.requests").max(1.0),
        "ratio",
    );
    out.metric(
        "serve.queue_depth_max",
        json_number(&after, "serve.queue_depth_max"),
        "count",
    );
    out.metric("serve.refused", nominal.refused as f64, "count");
    out.metric(
        "serve.generator_late_ms",
        percentile(&nominal.late_ms, 99.0),
        "ms",
    );
    out.info_num("serve_latency_samples", nominal.lat_ms.len());
    out.info_raw("serve_nominal_qps", NOMINAL_QPS.to_string());
    out.info_raw("serve_limit_ms", LIMIT_MS.to_string());
    Ok(batch_mean)
}

/// Find the highest sustainable offered rate: climb the coarse ladder to
/// its first missed rung, then step up from the last held rung by
/// [`FINE_STEP`] until a rung misses. Reports the achieved rate of the last
/// rung that held.
fn ladder(ctx: &Ctx, daemon: &Daemon, out: &mut Outcome) -> Result<f64, String> {
    let mut rung = Rung {
        ctx,
        daemon,
        offset: 0,
        rungs: 0,
        best: 0.0,
    };
    let mut held = 0.0;
    let mut missed = None;
    for &rate in &COARSE_QPS {
        if !rung.holds(rate, out)? {
            missed = Some(rate);
            break;
        }
        held = rate;
    }
    if let Some(missed) = missed {
        let mut rate = held * FINE_STEP;
        while rate < missed && rung.holds(rate, out)? {
            rate *= FINE_STEP;
        }
    }
    out.info_num("ladder_rungs", rung.rungs);
    Ok(rung.best)
}

/// One ladder rung, offered for [`RUNG_S`]. It misses when a request
/// failed, its p99 is over the limit, or a backlog grew through it. A
/// missed rung gets one more try, so a lone host stall does not end the
/// climb.
struct Rung<'a> {
    ctx: &'a Ctx<'a>,
    daemon: &'a Daemon,
    offset: usize,
    rungs: usize,
    best: f64,
}

impl Rung<'_> {
    fn holds(&mut self, rate: f64, out: &mut Outcome) -> Result<bool, String> {
        let threads = self.ctx.args.threads;
        for _attempt in 0..2 {
            self.offset += (rate * RUNG_S) as usize;
            let ph = run_phase(
                &self.daemon.addr,
                &self.ctx.queries,
                self.offset,
                rate,
                RUNG_S,
                threads,
                false,
            )?;
            ph.tally_into(out);
            self.rungs += 1;
            if ph.failed() == 0 && ph.p(99.0) <= LIMIT_MS && !ph.growing() {
                self.best = ph.achieved_qps;
                return Ok(true);
            }
        }
        Ok(false)
    }
}
